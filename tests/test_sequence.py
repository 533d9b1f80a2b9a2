"""Discrete-event run tests: determinism, statistics, mode consistency."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from atomlink.analysis.estimators import (
    correlation_probability,
    interference_contrast,
    three_basis_summary,
)
from atomlink.analysis.tables import CLICK_ORIGINS, PLANES, SCHEDULES
from atomlink.memory.channel import dephasing_channel_family
from atomlink.photonics.polarization import rotation_su2
from atomlink import quantum
from atomlink.protocol import sequence
from atomlink.protocol.model import fidelity_vs_length
from atomlink.protocol.rates import (
    block_model,
    duty_cycle,
    event_rate,
    repetition_rate,
    window_capture,
)
from atomlink.protocol.presets import PRESETS
from atomlink.protocol.scenario import preset
from atomlink.protocol.sequence import (
    _werner_atom_photon,
    coincidence_branches,
    herald_readout,
    heralded_states,
    mean_pair_operators,
    readout_matrix,
    run_sequence,
    signal_input,
    wall_times,
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
    herald,
    herald_input,
    interference_pair_operators,
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

    @pytest.mark.parametrize("mode", ["density-matrix", "sampled-clicks"])
    def test_state_block_size_changes_no_bit(self, mode, monkeypatch):
        # one block of all 200 heralds, the default blocks and 7-herald
        # blocks, of which the last is partial
        def run(block):
            monkeypatch.setattr(sequence, "_STATE_BLOCK", block)
            result = run_sequence(preset("l6"), target_events=200, seed=5, mode=mode,
                                  n_trajectories=N_TRAJ)
            result.states    # built now, at this block size
            return result

        default = sequence._STATE_BLOCK
        whole = run(200)
        for other in (run(default), run(7)):
            for table in ("events", "clicks"):
                for f in fields(getattr(whole, table)):
                    assert np.array_equal(getattr(getattr(other, table), f.name),
                                          getattr(getattr(whole, table), f.name)), f.name
            if mode == "density-matrix":
                assert np.array_equal(other.states, whole.states)
            else:
                assert other.states is None and whole.states is None
            assert other.summary == whole.summary

    def test_zero_targets(self):
        res = run_sequence(preset("l6"), target_events=0, seed=1,
                           mode="sampled-clicks", n_trajectories=N_TRAJ)
        assert len(res.events) == 0
        assert len(res.clicks) == 0
        assert res.summary["n_events"] == 0


class TestStatePassMemory:
    def test_state_pass_holds_one_block(self):
        tracemalloc.start()
        try:
            result = run_sequence(preset("l6"), target_events=2000, seed=3,
                                  mode="sampled-clicks", n_trajectories=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.events) == 2000
        # the 0.7 MB run result and one block of the readout pass: 1.5 MB in all
        assert peak < 2.5e6

    def test_density_matrix_run_holds_no_states(self):
        # the (n, 9, 9) states, 2.6 MB here, are built only when read
        tracemalloc.start()
        try:
            result = run_sequence(preset("l6"), target_events=2000, seed=3,
                                  mode="density-matrix", n_trajectories=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.events) == 2000
        assert peak < 2.5e6


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

    def test_model_rate_is_at_the_clock_duty(self, l6_run):
        # the rate the run's own clock implies, next to the nominal duty
        s = preset("l6")
        model = l6_run.summary["model"]
        duty = duty_cycle(s.sequence, 1.0 / repetition_rate(s))
        assert model["duty_cycle"] == duty
        assert model["duty_cycle_nominal"] == s.duty_cycle_nominal != duty
        assert model["event_rate_hz"] == pytest.approx(event_rate(s, duty=duty), rel=1e-15)

    def test_bell_outcome_split(self, l6_run):
        counts = l6_run.summary["herald_counts"]
        n = counts["DPlus"] + counts["DMinus"]
        assert abs(counts["DPlus"] - n / 2) < 3.5 * np.sqrt(n * 0.25)

    def test_accepted_window_fraction(self, l6_run):
        assert 0.62 <= l6_run.summary["accepted_fraction"] <= 0.72

    def test_background_origin_fraction(self, l6_run):
        frac = np.mean(~l6_run.events.signal)
        assert 0.0 < frac < 0.08   # a few percent of heralds

    def test_background_reaches_dnull(self, l6_run):
        # every background pair carries two 'mixed' clicks; those that are
        # not heralds are D-null pairs
        pairs = np.count_nonzero(l6_run.clicks.origin == CLICK_ORIGINS.index("mixed")) // 2
        background_dnull = pairs - np.count_nonzero(~l6_run.events.signal)
        assert 0 < background_dnull <= l6_run.summary["n_dnull"]

    def test_herald_clicks_inside_hardware_window(self):
        # coincidence_branches counts each photon's capture in the hardware
        # window, so no herald may hold a click the hardware cannot record
        s = preset("l6")
        res = run_sequence(s, target_events=4000, seed=3, mode="sampled-clicks",
                           n_trajectories=100)
        lo = s.hardware_window_offset * 1e9
        clicks = res.events.click_ns
        assert np.all((clicks >= lo) & (clicks <= lo + s.hardware_window * 1e9))

    def test_schedule_round_robin(self, l6_run):
        settings = {}
        ev = l6_run.events
        for alpha, beta, plane in zip(ev.alpha_rad.tolist(), ev.beta_rad.tolist(), ev.plane):
            key = (round(alpha, 6), round(beta, 6), plane)
            settings[key] = settings.get(key, 0) + 1
        counts = list(settings.values())
        assert len(counts) == 6
        assert max(counts) - min(counts) <= 1


class TestCoincidenceBranches:
    def test_accepted_window_contrast_is_xi_at_150ns(self):
        # each branch weighted by the odds that both its clicks land in the
        # acceptance window: both photons of a signal pair; one photon (node 1
        # with odds eta1 : eta2) and one flat click of a background pair.
        # Without background in D-null this reads about 0.02.
        s = replace(preset("l6"), wavepacket_delay=150e-9)
        eta, xi, weights = coincidence_branches(s)
        capture = [window_capture(s, i) for i in (0, 1)]
        flat = s.acceptance_window / s.hardware_window
        accept = np.array([capture[0] * capture[1],
                           flat * (eta[0] * capture[0] + eta[1] * capture[1]) / sum(eta)])
        acc = weights * accept[:, None]
        contrast = interference_contrast(acc[:, 2].sum(), acc[:, 0].sum(), acc[:, 1].sum())
        assert abs(contrast - xi) < 1e-3


def _with_lifetime(name, trap_lifetime):
    s = preset(name)
    return replace(s, sequence=replace(s.sequence, trap_lifetime=trap_lifetime))


class TestBlockClock:
    @pytest.mark.parametrize("name", ["l6", "l33"])
    def test_matches_per_try_oracle_without_losses(self, name):
        s = _with_lifetime(name, 1e300)
        per_block, _ = block_model(s.sequence, 1.0 / repetition_rate(s))
        # gaps of about three blocks, so one gap often crosses several
        gaps = np.random.default_rng(7).geometric(1.0 / (3 * per_block), size=150)
        walls, dead = wall_times(s, np.cumsum(gaps), np.random.default_rng(4))
        expected = np.array(oracles.brute_block_clock(gaps, 1.0 / repetition_rate(s),
                                                      s.sequence))
        assert np.max(np.abs(walls / expected - 1.0)) <= 1e-9
        assert not dead.any()

    def test_empty_run(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        walls, dead = wall_times(preset("l33"), [], rng)
        assert walls.shape == dead.shape == (0,)
        assert rng.bit_generator.state == before

    def test_immortal_traps_run_without_dead_time(self):
        res = run_sequence(_with_lifetime("l33", 1e300), target_events=200, seed=9,
                           mode="sampled-clicks", n_trajectories=N_TRAJ)
        assert res.summary["dead_time_s"] == 0.0
        walls, _ = wall_times(_with_lifetime("l33", 1e300),
                              res.events.try_index, np.random.default_rng(0))
        assert np.array_equal(walls, res.events.wall_time_s)

    @pytest.mark.parametrize("lifetime", [1.0, 0.01])
    def test_mean_dead_time_per_block(self, lifetime):
        # a block pauses for one reload, U(0.4, 1.6) in units of the loading
        # time, if one trap was lost, and for the longer of two (mean 1.2)
        # if both were; at the short lifetime nearly every block loses both
        s = _with_lifetime("l6", lifetime)
        seq = s.sequence
        per_block, _ = block_model(seq, 1.0 / repetition_rate(s))
        per_call, calls = 10, 3000
        _, dead = wall_times(s, per_call * per_block * np.arange(1, calls + 1),
                             np.random.default_rng(12))
        pauses = np.diff(dead, prepend=0.0) / per_call
        q = 1.0 - np.exp(-(seq.block_period + seq.presence_check_duration) / seq.trap_lifetime)
        expected = seq.loading_time * (2 * q * (1 - q) * 1.0 + q**2 * 1.2)
        se = np.std(pauses) / np.sqrt(calls)
        assert abs(np.mean(pauses) - expected) < 4 * se

    @pytest.mark.parametrize("name", ["l6", "l33"])
    def test_duty_cycle_is_the_clock_live_fraction(self, name):
        # the closed form against the live fraction the clock realizes over
        # many blocks; the spread comes from the reload pauses alone, whose
        # second moment per block is L^2 (2 q (1 - q) E[U^2] + q^2 E[max^2])
        # with E[U^2] = 1.12 for U(0.4, 1.6) and E[max^2] = 1.52 for two
        s = preset(name)
        seq = s.sequence
        period = 1.0 / repetition_rate(s)
        per_block, p_survive = block_model(seq, period)
        blocks = 20_000
        (wall,), _ = wall_times(s, [blocks * per_block], np.random.default_rng(40))
        realized = blocks * per_block * period / wall
        q = 1.0 - p_survive
        mean = seq.loading_time * (2 * q * (1 - q) + 1.2 * q**2)
        var = seq.loading_time**2 * (2 * q * (1 - q) * 1.12 + q**2 * 1.52) - mean**2
        sigma = realized * np.sqrt(blocks * var) / wall
        assert abs(realized - duty_cycle(seq, period)) < 4 * sigma


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
                        field_env=replace(s.node1.field_env, fictitious_field_scale=0.0,
                                          shot_noise_sigma=0.0))
        node2 = replace(s.node2, atom_photon_visibility=1.0,
                        qfc=replace(s.node2.qfc, background_rate=0.0),
                        field_env=replace(s.node2.field_env, fictitious_field_scale=0.0,
                                          shot_noise_sigma=0.0))
        link = type(s.link1)
        ideal = replace(
            s, node1=node1, node2=node2, xi_max=1.0, ap_visibility_scale=1.0,
            polarization_error_mean=0.0,
            detectors=replace(s.detectors, dark_rate=0.0),
            link1=link(0.0, 0.0), link2=link(0.0, 0.0),
            readout_time1=1e-7, readout_time2=1e-7,
        )
        res = run_sequence(ideal, target_events=20, seed=2, mode="density-matrix",
                           n_trajectories=200)
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
        ds, ss = dm.dataset, sp.dataset
        for key in zip(ds.alpha, ds.beta, ds.plane, ds.outcome, ds.counts):
            (i,) = np.flatnonzero((ss.alpha == key[0]) & (ss.beta == key[1])
                                  & (ss.plane == key[2]) & (ss.outcome == key[3]))
            p_dm = correlation_probability(key[4])
            p_sp = correlation_probability(ss.counts[i])
            tol = 3.5 * 0.5 / np.sqrt(ss.counts[i].sum())   # per-setting binomial bound
            assert abs(p_dm - p_sp) < tol, key

    def test_modes_share_every_draw(self, mode_runs):
        # the readout uniforms are drawn last, so only the readout column differs
        dm, sp = mode_runs
        for f in fields(dm.events):
            if f.name != "readout":
                assert np.array_equal(getattr(dm.events, f.name), getattr(sp.events, f.name)), f.name
        assert _same_columns(dm.clicks, sp.clicks)
        assert {**dm.summary, "mode": None} == {**sp.summary, "mode": None}

    def test_dataset_matches_per_record_builder(self, mode_runs):
        # same settings in the same order, and sums taken in the same order
        for res in mode_runs:
            ref = oracles.dataset_from_records(oracles.event_records(res.events), res.mode)
            for f in fields(ref):
                built, want = (np.asarray(getattr(d, f.name), dtype=float)
                               for d in (res.dataset, ref))
                assert built.shape == want.shape and built.tobytes() == want.tobytes(), f.name

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


def _after_memories(rho, coherences):
    """A [3,3] state after each atom's memory channel, one channel at a time."""
    out = rho.matrix
    for atom, c in enumerate(coherences):
        out = oracles.apply_to_subsystem(c, out, [3, 3], atom)
    return DensityMatrix(HilbertSpec([3, 3]), out)


class TestBatchedHerald:
    @pytest.mark.parametrize("xi", [0.0, 0.4, 1.0])
    def test_batch_matches_scalar_path(self, xi):
        # the scalar reference applies each photon's residual to the input
        # itself, so it shares no fold with the batch
        rng = np.random.default_rng(23)
        signal_in = DensityMatrix(HilbertSpec([3, 2, 3, 2]),
                                  oracles.random_density_matrix(rng, 36))
        channels = [_random_coherence(rng) for _ in (0, 1)]
        identity = np.eye(2, dtype=complex)
        for cycle in SCHEDULES.values():
            n = 2 * len(cycle)    # every setting with both outcomes
            setting_index = np.arange(n) % len(cycle)
            outcomes = [list(BellOutcome)[h // len(cycle)] for h in range(n)]
            u1 = np.array([oracles.random_su2(rng) for _ in range(n)])
            u2 = np.array([oracles.random_su2(rng) for _ in range(n)])
            pair_ops = interference_pair_operators(outcomes, xi, u1, u2)
            states = heralded_states(signal_in, channels, pair_ops)
            probs, fids = oracles.state_readout(states, cycle, setting_index, outcomes)
            # the run's readout, straight from the pair operators, against the state path
            values = herald_readout(readout_matrix(signal_in, channels, cycle)[0], pair_ops)
            codes = np.array([list(BellOutcome).index(o) for o in outcomes])
            assert np.max(np.abs(values[np.arange(n)[:, None], 4 * setting_index[:, None]
                                        + np.arange(4)] - probs)) <= 1e-15
            assert np.max(np.abs(values[np.arange(n), 4 * len(cycle) + codes] - fids)) <= 1e-15
            for h in range(n):
                lift = np.kron(np.kron(np.eye(3), u1[h]), np.kron(np.eye(3), u2[h]))
                rotated = DensityMatrix(signal_in.spec, lift @ signal_in.matrix @ lift.conj().T)
                _, rho = swap_with_interference(rotated, outcomes[h], xi, (identity, identity))
                rho = _after_memories(rho, channels)
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
            fam = dephasing_channel_family(node.trap, node.field_env, node.temperature,
                                           [round(t, 12)], n_traj, seed=seed * 2 + i + 1)
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
                rho = _after_memories(rho, channels)
            else:
                rho = DensityMatrix(HilbertSpec([3, 3]), mixed)
            p_ref, f_ref = _scalar_readout(rho, outcome, ev.alpha_rad[h], ev.beta_rad[h],
                                           PLANES[ev.plane[h]])
            assert np.max(np.abs(state - rho.matrix)) < 1e-12
            assert np.max(np.abs(ev.probabilities[h] - p_ref)) < 1e-12
            assert abs(ev.fidelity[h] - f_ref) < 1e-12

    def test_sampled_readouts_match_state_path(self, monkeypatch):
        # each seed's density-matrix run shares every draw with its sampled
        # run; its states, read out one by one, are the reference, and the
        # sampled run's own uniforms give the reference readouts
        uniforms = []
        sample = sequence._sample_readout
        monkeypatch.setattr(sequence, "_sample_readout",
                            lambda probs, u: uniforms.append(u) or sample(probs, u))
        cycle = SCHEDULES["three-basis"]
        flips = 0
        for seed in range(20):
            sp, dm = (run_sequence(preset("l6"), target_events=300, seed=seed, mode=mode,
                                   n_trajectories=200)
                      for mode in ("sampled-clicks", "density-matrix"))
            ev = sp.events
            probs, fids = oracles.state_readout(dm.states, cycle, np.arange(len(ev)) % len(cycle),
                                                [list(BellOutcome)[c] for c in ev.outcome])
            assert np.max(np.abs(ev.probabilities - probs)) <= 1e-15
            assert np.max(np.abs(ev.fidelity - fids)) <= 1e-15
            flips += np.count_nonzero(sample(probs, uniforms[-1]) != ev.readout)
        assert len(uniforms) == 20 and flips == 0

    def test_states_are_built_only_when_read(self, monkeypatch):
        calls = []
        herald = quantum.herald
        monkeypatch.setattr(quantum, "herald", lambda *a: calls.append(1) or herald(*a))
        runs = [run_sequence(preset("l6"), target_events=50, seed=2, mode=mode,
                             n_trajectories=N_TRAJ)
                for mode in ("sampled-clicks", "density-matrix")]
        assert not calls
        assert runs[0].states is None and not calls
        assert runs[1].states.shape == (50, 9, 9) and calls


def _non_psd(matrix):
    """``matrix`` with its lowest eigenvalue moved to -1e-3, trace and Hermiticity kept."""
    w, v = np.linalg.eigh(matrix)
    w[0], w[-1] = -1e-3, w[-1] + w[0] + 1e-3
    return (v * w) @ v.conj().T


class TestHeraldInputCheck:
    """The checks of a run's inputs that stand in for checking every herald state."""

    @pytest.mark.parametrize("mode", ["density-matrix", "sampled-clicks"])
    def test_non_psd_input_is_rejected(self, mode, monkeypatch):
        # the input is a DensityMatrix, which checks itself when built
        good = signal_input(preset("l6"))
        monkeypatch.setattr(sequence, "signal_input",
                            lambda scenario: DensityMatrix(good.spec, _non_psd(good.matrix)))
        with pytest.raises(ValueError, match="not PSD"):
            run_sequence(preset("l6"), target_events=20, seed=1, mode=mode,
                         n_trajectories=N_TRAJ)

    @pytest.mark.parametrize("mode", ["density-matrix", "sampled-clicks"])
    def test_non_psd_coherence_is_rejected(self, mode, monkeypatch):
        # unit diagonal, eigenvalues 1 - sqrt2, 1 and 1 + sqrt2
        bad = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]], complex)
        coherences = sequence.memory_coherences
        monkeypatch.setattr(sequence, "memory_coherences",
                            lambda *a: [[bad, coherences(*a)[0][1]]])
        with pytest.raises(ValueError, match="not PSD"):
            run_sequence(preset("l6"), target_events=20, seed=1, mode=mode,
                         n_trajectories=N_TRAJ)


_LAPACK_CALLS = ("cholesky", "eigvalsh", "eigh", "inv", "solve", "qr", "svd", "det")


class TestNoLapackOnTheRunPath:
    """A run, its states and the fidelity model reach no LAPACK routine unless a check fails."""

    def test_run_states_and_model_need_no_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK reached")

        for name in _LAPACK_CALLS:
            monkeypatch.setattr(np.linalg, name, refuse)
        for mode in ("density-matrix", "sampled-clicks"):
            run = run_sequence(preset("l6"), target_events=200, seed=3, mode=mode,
                               n_trajectories=N_TRAJ)
        assert run.states is None
        dm = run_sequence(preset("l33"), target_events=200, seed=3, mode="density-matrix",
                          n_trajectories=N_TRAJ)
        assert dm.states.shape == (200, 9, 9)
        (row,) = fidelity_vs_length([preset("l6")], n_trajectories=N_TRAJ, seed=2)
        assert 0.5 < row["fidelity"] < 1.0


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


def _run_contrasts(run):
    """X, Y, Z contrasts of a density-matrix run and their standard errors.

    The contrasts are ``three_basis_summary``'s, pooled over both outcomes;
    each error propagates the spread of the accepted heralds' expected
    P_corr within every (setting, outcome) group.
    """
    per_outcome = three_basis_summary(run.dataset)["per_outcome"]
    contrasts = [np.mean([c["contrasts"][k] for c in per_outcome.values()]) for k in "XYZ"]
    ev = run.events
    p_corr = ev.probabilities[:, 0] + ev.probabilities[:, 3]
    variances = np.zeros(3)
    for k, (alpha, beta, plane) in enumerate(SCHEDULES["three-basis"]):
        at = (ev.accepted & np.isclose(ev.alpha_rad, alpha) & np.isclose(ev.beta_rad, beta)
              & (ev.plane == PLANES.index(plane)))
        for outcome in (0, 1):
            group = p_corr[at & (ev.outcome == outcome)]
            variances[k // 2] += group.var(ddof=1) / len(group)
    return np.array(contrasts), np.sqrt(variances) / 2.0


class TestMemoryCoherences:
    def test_grouped_builds_match_one_build_per_scenario(self):
        # the presets share each node's memory; l6 with a deeper node-1
        # trap shares node 2's build with them but not node 1's
        l6 = preset("l6")
        deep = replace(l6, name="l6-deep", node1=replace(
            l6.node1, trap=replace(l6.node1.trap, trap_depth_u0=3.0e-3)))
        scenarios = [preset(name) for name in PRESETS] + [deep]
        n, seed = 200, 4
        grouped = sequence.memory_coherences(scenarios, n, seed)
        for s, pair in zip(scenarios, grouped):
            for i, (node, t) in enumerate(zip(s.nodes(), s.readout_times())):
                fam = dephasing_channel_family(node.trap, node.field_env, node.temperature,
                                               [round(t, 12)], n, seed=2 * seed + i + 1)
                assert np.array_equal(pair[i], fam.rotating_channel_at(round(t, 12))), (s.name, i)


class TestFidelityModel:
    def test_residual_average_matches_monte_carlo(self):
        # stage 5's residual draw, 10^5 pairs per outcome, against the closed form
        eps, xi, n = 0.05, 0.8, 100_000
        rng = np.random.default_rng(11)
        for outcome in BellOutcome:
            u = rotation_su2(rng.normal(size=(n, 2, 3)),
                             rng.normal(0.0, 2.0 * np.sqrt(eps), (n, 2)))
            ops = interference_pair_operators([outcome] * n, xi, u[:, 0], u[:, 1])
            mean, stderr = ops.mean(axis=0), ops.std(axis=0) / np.sqrt(n)
            closed = mean_pair_operators([outcome], xi, eps)[0]
            assert np.all(np.abs(mean - closed) <= 5.0 * stderr + 1e-12)
            # the average departs from the ideal fibre by many standard errors
            ideal = mean_pair_operators([outcome], xi, 0.0)[0]
            assert np.max(np.abs(ideal - closed) / (stderr + 1e-12)) > 50.0

    def test_herald_probability_is_a_quarter_for_any_residual(self):
        rng = np.random.default_rng(12)
        n = 200
        u1 = np.array([oracles.random_su2(rng) for _ in range(n)])
        u2 = np.array([oracles.random_su2(rng) for _ in range(n)])
        outcomes = [list(BellOutcome)[h % 2] for h in range(n)]
        inputs = herald_input(signal_input(preset("l33")).matrix)
        for xi in (0.0, 0.5, 0.97):
            prob, _ = herald(inputs, interference_pair_operators(outcomes, xi, u1, u2))
            assert np.max(np.abs(prob - 0.25)) < 1e-12

    def test_envelope_stderr_is_the_channel_stderr(self):
        s, n, seed = preset("l23"), 200, 3
        (row,) = fidelity_vs_length([s], n_trajectories=n, seed=seed)
        for i, (node, t) in enumerate(zip(s.nodes(), s.readout_times())):
            fam = dephasing_channel_family(node.trap, node.field_env, node.temperature,
                                           [round(t, 12)], n, seed=2 * seed + i + 1)
            assert row[f"envelope{i + 1}"] == pytest.approx(fam.envelope()[0], rel=1e-14)
            assert row[f"envelope{i + 1}_stderr"] == pytest.approx(fam.stderr()[0], rel=1e-12)

    def test_deterministic(self):
        scenarios = [preset("l6"), preset("l33")]
        assert (fidelity_vs_length(scenarios, n_trajectories=200, seed=3)
                == fidelity_vs_length(scenarios, n_trajectories=200, seed=3))

    def test_contrasts_match_density_matrix_runs(self):
        # the model at (n_trajectories, seed) uses the run's own memory
        # channels, so each seed pairs a run with the model on the same
        # channels: the channel Monte Carlo is common to both sides, and
        # sigma is the run mean's herald-sampling error
        seeds, n_traj = range(8), 100
        for name in PRESETS:
            s = preset(name)
            runs, model, var = [], [], np.zeros(3)
            for seed in seeds:
                c, se = _run_contrasts(run_sequence(s, target_events=2000, seed=seed,
                                                    mode="density-matrix",
                                                    n_trajectories=n_traj))
                (row,) = fidelity_vs_length([s], n_trajectories=n_traj, seed=seed)
                runs.append(c)
                model.append([row[f"contrast_{k}"] for k in "xyz"])
                var += se**2
            sigma = np.sqrt(var) / len(seeds)
            gap = np.mean(runs, axis=0) - np.mean(model, axis=0)
            assert np.all(np.abs(gap) <= 3.0 * sigma), (name, gap, sigma)
