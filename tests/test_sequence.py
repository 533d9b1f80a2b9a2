"""Discrete-event run tests: determinism, statistics, mode consistency."""

from dataclasses import fields, replace

import numpy as np
import pytest

from atomlink.analysis import correlation_probability, three_basis_summary
from atomlink.analysis.tables import PLANES
from atomlink.memory import QutritChannel, dephasing_channel_family
from atomlink.protocol import event_rate, preset, repetition_rate, run_sequence
from atomlink.protocol.scenario import CAL_SIGMA_SHOT_EFF
from atomlink.protocol.sequence import (
    SCHEDULES,
    _SequenceClock,
    _werner_atom_photon,
    event_readout,
    heralded_states,
)
from atomlink.quantum import (
    OUTCOME_KEYS,
    AtomBasisSetting,
    BellOutcome,
    DensityMatrix,
    HilbertSpec,
    MeasurementPlane,
    atom_bell_state,
    fidelity,
    joint_outcome_probabilities,
    swap_with_interference,
    tensor,
)

import oracles

N_TRAJ = 600   # keep unit tests quick; the acceptance suite uses full counts


@pytest.fixture(scope="module")
def l6_run():
    return run_sequence(preset("l6"), schedule="three-basis", target_events=900,
                        seed=21, mode="sampled-clicks", n_trajectories=N_TRAJ)


def _same_columns(a, b):
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


class TestDeterminism:
    def test_same_seed_identical(self):
        a = run_sequence(preset("l6"), target_events=40, seed=5,
                         mode="sampled-clicks", n_trajectories=N_TRAJ)
        b = run_sequence(preset("l6"), target_events=40, seed=5,
                         mode="sampled-clicks", n_trajectories=N_TRAJ)
        assert _same_columns(a.events, b.events)
        assert _same_columns(a.clicks, b.clicks)
        assert a.summary == b.summary

    def test_different_seed_differs(self):
        a = run_sequence(preset("l6"), target_events=40, seed=5,
                         mode="sampled-clicks", n_trajectories=N_TRAJ)
        b = run_sequence(preset("l6"), target_events=40, seed=6,
                         mode="sampled-clicks", n_trajectories=N_TRAJ)
        assert a.events.wall_time_s[0] != b.events.wall_time_s[0]

    def test_zero_targets(self):
        res = run_sequence(preset("l6"), target_events=0, seed=1,
                           mode="sampled-clicks", n_trajectories=N_TRAJ)
        assert len(res.events) == 0
        assert len(res.clicks) == 0
        assert res.summary["n_events"] == 0


class TestEventStatistics:
    def test_wall_times_strictly_increasing(self, l6_run):
        assert np.all(np.diff(l6_run.events.wall_time_s) > 0)

    def test_gaps_exponential(self, l6_run):
        gaps = np.diff(l6_run.events.wall_time_s)
        n = len(gaps)
        cv = np.std(gaps) / np.mean(gaps)
        assert cv == pytest.approx(1.0, abs=4.0 / np.sqrt(n))

    def test_rate_matches_budget(self, l6_run):
        s = preset("l6")
        summary = l6_run.summary
        measured = summary["measured_event_rate_hz"]
        # duty realized in this run
        duty = (summary["n_tries"] / repetition_rate(s)) / summary["wall_time_s"]
        expected = event_rate(s, duty=duty)
        sigma = measured / np.sqrt(summary["n_events"])
        assert abs(measured - expected) < 3.5 * sigma

    def test_bell_outcome_split(self, l6_run):
        counts = l6_run.summary["herald_counts"]
        n = counts["DPlus"] + counts["DMinus"]
        assert abs(counts["DPlus"] - n / 2) < 3.5 * np.sqrt(n * 0.25)

    def test_accepted_window_fraction(self, l6_run):
        assert 0.62 <= l6_run.summary["accepted_fraction"] <= 0.72

    def test_background_origin_fraction(self, l6_run):
        frac = np.mean(~l6_run.events.signal)
        assert 0.0 < frac < 0.08   # a few percent of heralds

    def test_schedule_round_robin(self, l6_run):
        settings = {}
        ev = l6_run.events
        for alpha, beta, plane in zip(ev.alpha_rad.tolist(), ev.beta_rad.tolist(), ev.plane):
            key = (round(alpha, 6), round(beta, 6), plane)
            settings[key] = settings.get(key, 0) + 1
        counts = list(settings.values())
        assert len(counts) == 6
        assert max(counts) - min(counts) <= 1


def _with_lifetime(name, trap_lifetime):
    s = preset(name)
    return replace(s, sequence=replace(s.sequence, trap_lifetime=trap_lifetime))


class TestBlockClock:
    @pytest.mark.parametrize("name", ["l6", "l33"])
    def test_matches_per_try_oracle_without_losses(self, name):
        s = _with_lifetime(name, 1e300)
        clock = _SequenceClock(s, np.random.default_rng(4))
        # gaps of about three blocks, so one advance often crosses several
        gaps = np.random.default_rng(7).geometric(1.0 / (3 * clock.tries_per_block), size=150)
        walls = np.array([clock.advance(int(g)) for g in gaps])
        expected = np.array(oracles.brute_block_clock(gaps, 1.0 / repetition_rate(s),
                                                      s.sequence))
        assert np.max(np.abs(walls / expected - 1.0)) <= 1e-9
        assert clock.dead_time == 0.0

    def test_mean_dead_time_per_block(self):
        # a block pauses for one reload, U(0.4, 1.6) in units of the loading
        # time, if one trap was lost, and for the longer of two (mean 1.2)
        # if both were
        s = _with_lifetime("l6", 1.0)
        seq = s.sequence
        clock = _SequenceClock(s, np.random.default_rng(12))
        per_call, calls = 10, 3000
        pauses = []
        for _ in range(calls):
            before = clock.dead_time
            clock.advance(per_call * clock.tries_per_block)
            pauses.append((clock.dead_time - before) / per_call)
        q = 1.0 - np.exp(-(seq.block_period + seq.presence_check_duration) / seq.trap_lifetime)
        expected = seq.loading_time * (2 * q * (1 - q) * 1.0 + q**2 * 1.2)
        se = np.std(pauses) / np.sqrt(calls)
        assert abs(np.mean(pauses) - expected) < 4 * se


class TestStateQuality:
    def test_mean_fidelity_near_published(self, l6_run):
        assert l6_run.summary["mean_state_fidelity"] == pytest.approx(0.83, abs=0.02)

    def test_event_states_are_valid(self):
        res = run_sequence(preset("l6"), target_events=25, seed=3,
                           mode="density-matrix", n_trajectories=N_TRAJ)
        for fid, state in zip(res.events.fidelity, res.states, strict=True):
            # DensityMatrix constructor enforces trace/hermiticity/psd
            assert DensityMatrix(HilbertSpec([3, 3]), state).spec.subsystem_dims == (3, 3)
            assert fid > 0.2

    def test_ideal_configuration_gives_unit_fidelity(self):
        from dataclasses import replace
        s = preset("l6")
        node1 = replace(s.node1, atom_photon_visibility=1.0,
                        qfc=replace(s.node1.qfc, background_rate=0.0),
                        field_env=s.node1.field_env.replace(fictitious_field_scale=0.0))
        node2 = replace(s.node2, atom_photon_visibility=1.0,
                        qfc=replace(s.node2.qfc, background_rate=0.0),
                        field_env=s.node2.field_env.replace(fictitious_field_scale=0.0))
        link = type(s.link1)
        ideal = replace(
            s, node1=node1, node2=node2, xi_max=1.0, ap_visibility_scale=1.0,
            polarization_error_mean=0.0,
            detectors=replace(s.detectors, dark_rate=0.0),
            link1=link(0.0, 0.0), link2=link(0.0, 0.0),
            readout_time1=1e-7, readout_time2=1e-7,
        )
        res = run_sequence(ideal, target_events=20, seed=2, mode="density-matrix",
                           n_trajectories=200, memory_noise_sigma=0.0)
        for fid in res.events.fidelity:
            assert fid == pytest.approx(1.0, abs=5e-4)


N_MODES = 1600


@pytest.fixture(scope="module")
def mode_runs():
    """Density-matrix and sampled-clicks l6 runs of the same seed."""
    return tuple(run_sequence(preset("l6"), schedule="three-basis", target_events=N_MODES,
                              seed=31, mode=mode, n_trajectories=N_TRAJ)
                 for mode in ("density-matrix", "sampled-clicks"))


class TestModeConsistency:
    def test_sampled_matches_density_matrix(self, mode_runs):
        dm, sp = mode_runs
        for row in dm.dataset.settings():
            p_dm, _ = correlation_probability(row)
            counts = sp.dataset.counts(row.alpha, row.beta, row.plane, row.outcome)
            p_sp, _ = correlation_probability(counts)
            tol = 3.5 * 0.5 / np.sqrt(counts.total())   # per-setting binomial bound
            assert abs(p_dm - p_sp) < tol, (row.alpha, row.beta, row.plane, row.outcome)

    def test_dataset_matches_per_record_builder(self, mode_runs):
        # same settings in the same order, and sums taken in the same order
        for res in mode_runs:
            records = oracles.event_records(res.events)
            assert res.dataset.rows == oracles.dataset_from_records(records, res.mode).rows

    def test_estimator_consistency(self, mode_runs):
        dm, sp = mode_runs
        f_dm = three_basis_summary(dm.dataset)["fidelity"]
        f_sp = three_basis_summary(sp.dataset)["fidelity"]
        assert abs(f_dm - f_sp) < 3.0 / np.sqrt(N_MODES)


def _scalar_readout(rho, outcome, alpha, beta, plane):
    """Probabilities in OUTCOME_KEYS order and Bell fidelity of one [3,3] state."""
    plane = MeasurementPlane(plane)
    p = joint_outcome_probabilities(rho, AtomBasisSetting(alpha, plane),
                                    AtomBasisSetting(beta, plane))
    return np.array([p[k] for k in OUTCOME_KEYS]), fidelity(rho, atom_bell_state(outcome))


def _random_coherence(rng):
    """Random PSD 3x3 matrix with unit diagonal: the Gram matrix of unit vectors."""
    v = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    v /= np.linalg.norm(v, axis=0)
    return v.conj().T @ v


class TestBatchedHerald:
    @pytest.mark.parametrize("xi", [0.0, 0.4, 1.0])
    def test_batch_matches_scalar_path(self, xi):
        # the scalar reference applies each photon's residual to the input
        # itself, so it shares no fold with the batch
        rng = np.random.default_rng(23)
        signal_in = DensityMatrix(HilbertSpec([3, 2, 3, 2]),
                                  oracles.random_density_matrix(rng, 36))
        channels = [QutritChannel(_random_coherence(rng)) for _ in (0, 1)]
        identity = np.eye(2, dtype=complex)
        for cycle in SCHEDULES.values():
            n = 2 * len(cycle)    # every setting with both outcomes
            setting_index = np.arange(n) % len(cycle)
            outcomes = [list(BellOutcome)[h // len(cycle)] for h in range(n)]
            u1 = np.array([oracles.random_su2(rng) for _ in range(n)])
            u2 = np.array([oracles.random_su2(rng) for _ in range(n)])
            states = heralded_states(signal_in, channels, xi, outcomes, u1, u2)
            probs, fids = event_readout(states, cycle, setting_index, outcomes)
            for h in range(n):
                lift = np.kron(np.kron(np.eye(3), u1[h]), np.kron(np.eye(3), u2[h]))
                rotated = DensityMatrix(signal_in.spec, lift @ signal_in.matrix @ lift.conj().T)
                _, rho = swap_with_interference(rotated, outcomes[h], xi, (identity, identity))
                rho = channels[1].apply_to_subsystem(channels[0].apply_to_subsystem(rho, 0), 1)
                p_ref, f_ref = _scalar_readout(rho, outcomes[h], *cycle[setting_index[h]])
                assert np.max(np.abs(states[h] - rho.matrix)) < 1e-12
                assert np.max(np.abs(probs[h] - p_ref)) < 1e-12
                assert abs(fids[h] - f_ref) < 1e-12

    def test_run_matches_scalar_path(self):
        # without polarization error no residual is drawn, so every signal
        # herald is the ideal-fibre swap followed by both memory channels
        seed, n_traj = 4, 300
        s = replace(preset("l6"), polarization_error_mean=0.0)
        res = run_sequence(s, target_events=80, seed=seed, mode="density-matrix",
                           n_trajectories=n_traj)
        channels = []
        for i, (node, t) in enumerate(zip(s.nodes(), s.readout_times())):
            env = node.field_env.replace(shot_noise_sigma=CAL_SIGMA_SHOT_EFF)
            fam = dephasing_channel_family(node.trap, env, node.temperature, [round(t, 12)],
                                           n_traj, seed=seed * 2 + i + 1)
            channels.append(fam.rotating_channel_at(round(t, 12)))
        signal_in = tensor(*(_werner_atom_photon(min(1.0, n.atom_photon_visibility
                                                     * s.ap_visibility_scale))
                             for n in s.nodes()))
        mixed = np.kron(np.diag([0.5, 0.0, 0.5]), np.diag([0.5, 0.0, 0.5]))
        identity = np.eye(2, dtype=complex)
        assert res.states.shape == (80, 9, 9)
        ev = res.events
        assert len(ev) == 80
        assert set(ev.signal.tolist()) == {True, False}
        for h, state in enumerate(res.states):
            outcome = list(BellOutcome)[ev.outcome[h]]
            if ev.signal[h]:
                _, rho = swap_with_interference(signal_in, outcome, res.summary["xi"],
                                                (identity, identity))
                rho = channels[1].apply_to_subsystem(channels[0].apply_to_subsystem(rho, 0), 1)
            else:
                rho = DensityMatrix(HilbertSpec([3, 3]), mixed)
            p_ref, f_ref = _scalar_readout(rho, outcome, ev.alpha_rad[h], ev.beta_rad[h],
                                           PLANES[ev.plane[h]])
            assert np.max(np.abs(state - rho.matrix)) < 1e-12
            assert np.max(np.abs(ev.probabilities[h] - p_ref)) < 1e-12
            assert abs(ev.fidelity[h] - f_ref) < 1e-12


class TestValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run_sequence(preset("l6"), mode="exact", target_events=1, seed=0)

    def test_unknown_schedule_named(self):
        with pytest.raises(ValueError, match="'bell'"):
            run_sequence(preset("l6"), schedule="bell", target_events=1, seed=0)

    def test_negative_target(self):
        with pytest.raises(ValueError):
            run_sequence(preset("l6"), target_events=-5, seed=0)
