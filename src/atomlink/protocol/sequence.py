"""Discrete-event simulation of the full two-node experiment.

Tries are not iterated one by one: a run draws, stage by stage from one
Philox stream, the tries that produce a recordable two-photon coincidence
(heralds and D-null pairs, each from a signal photon pair or with one
background click), the geometric gaps between them, their detector pairs
and click times, and converts try indices into wall time through the block
structure of cooling, presence checks and trap reloads (``wall_times``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .. import quantum
from ..analysis.tables import (
    BELL_OUTCOMES,
    CLICK_ORIGINS,
    DETECTORS,
    PLANES,
    SCHEDULES,
    ClickTable,
    CorrelationDataset,
    EventTable,
)
from ..analysis.windows import HISTOGRAM_SPAN, acceptance_filter
from ..memory.channel import dephasing_channel_family
from ..photonics.bsm import CLASS_PAIRS, DETECTOR_PAIRS, CoincidenceClass, coincidence_distribution
from ..photonics.interference import indistinguishability, window_capture_probability
from ..photonics.polarization import rotation_su2
from ..quantum import (
    AtomBasisSetting,
    BellOutcome,
    DensityMatrix,
    MeasurementPlane,
    atom_bell_state,
    atom_photon_state,
    tensor,
)
from .rates import (
    background_herald_probability,
    background_rate_at_station,
    block_model,
    duty_cycle,
    event_rate,
    node_detection_efficiency,
    repetition_rate,
    sbr_model,
    success_probability,
)
from .scenario import LinkScenario, config_hash

# singles kept per node for that histogram; beyond it the stream is subsampled
MAX_SINGLES = 20000
# heralds per block of the readout pass and of the states built on demand;
# over 20 cold 4281-herald l6 runs each, 128 had the lowest median and
# maximum run time of 64 to 4096 (0.083 and 0.097 s)
_STATE_BLOCK = 128


@dataclass
class RunResult:
    """A run's events and clicks as columns; in density-matrix mode also its states.

    ``herald_draws`` holds what the states are built from in density-matrix
    mode, and is None in sampled-clicks mode: the signal input, both
    memories' coherence matrices, xi, and the stage-5 residual angles
    (n_signal, 2) and axes (n_signal, 2, 3) of the signal heralds.
    ``timings`` (seconds) and ``counters`` say where the run's time went;
    they enter no other output.
    """

    config_hash: str
    mode: str
    events: EventTable
    summary: dict
    clicks: ClickTable
    herald_draws: tuple | None = field(repr=False)
    timings: dict
    counters: dict

    @cached_property
    def dataset(self) -> CorrelationDataset:
        """Correlation counts of the accepted heralds, built on first access."""
        from ..analysis.estimators import dataset_from_events
        return dataset_from_events(self.events, self.mode)

    @cached_property
    def states(self) -> np.ndarray | None:
        """(n, 9, 9) heralded atom-atom states in density-matrix mode, else None.

        Built on first access, _STATE_BLOCK heralds at a time: each signal
        herald through ``heralded_states`` from its outcome and residual
        draws, each background herald as the mixed pair, and every block
        checked with ``quantum.check_density_matrices``.
        """
        if self.herald_draws is None:
            return None
        signal_in, coherences, xi, angles, axes = self.herald_draws
        ev = self.events
        states = np.empty((len(ev), 9, 9), complex)
        for rows, sig, pair_ops in _signal_pair_blocks(ev.signal, ev.outcome, xi, angles, axes):
            block = states[rows]
            block[:] = _MIXED_PAIR
            block[sig] = heralded_states(signal_in, coherences, pair_ops)
            quantum.check_density_matrices(block)
        return states


def wall_times(scenario: LinkScenario, tries, rng: np.random.Generator
               ) -> tuple[np.ndarray, np.ndarray]:
    """Wall time of each live-try count in ascending ``tries``, and the dead time in it.

    A block (see ``rates.block_model``) holds ``tries_per_block`` live tries
    in bursts of ``tries_per_cooling_block``, each burst followed by
    cooling, and ends in a presence check.  A trap found empty at the check
    is reloaded, and the block pauses for the longer reload, U(0.4, 1.6)
    loading times each, of its empty traps.  Only the number of lossy blocks
    between two try counts and the pauses of those blocks are drawn, so the
    memory is O(tries + lossy blocks).  ``rates.duty_cycle`` is the expected
    live fraction of this clock.
    """
    seq = scenario.sequence
    period = 1.0 / repetition_rate(scenario)
    per_block, p_survive = block_model(seq, period)
    q = np.asarray(tries, dtype=np.int64)
    blocks = q // per_block          # presence checks before each try count
    live = (q * period + q // seq.tries_per_cooling_block * seq.cooling_duration
            + blocks * seq.presence_check_duration)
    # lossy blocks among those completed since the previous try count; a
    # lossy block lost both traps with odds q^2 : 2q(1-q), q = 1 - p_survive,
    # and the longer of two U(0, 1) reloads is the square root of one
    lossy = rng.binomial(np.diff(blocks, prepend=0), 1.0 - p_survive**2)
    n_lossy = int(lossy.sum())
    both = rng.random(n_lossy) < (1.0 - p_survive) / (1.0 + p_survive)
    u = rng.random(n_lossy)
    pause = seq.loading_time * (0.4 + 1.2 * np.where(both, np.sqrt(u), u))
    dead = np.concatenate([[0.0], np.cumsum(pause)])[np.cumsum(lossy)]
    return live + dead, dead


def _werner_atom_photon(visibility: float) -> DensityMatrix:
    pure = atom_photon_state().density_matrix()
    mixed = np.eye(6, dtype=complex) / 6.0
    return DensityMatrix(pure.spec, visibility * pure.matrix + (1 - visibility) * mixed)


# background heralds carry the maximally mixed qubit pair, which no memory changes
_MIXED_PAIR = np.kron(np.diag([0.5, 0.0, 0.5]), np.diag([0.5, 0.0, 0.5])).astype(complex)

# the classes a run records, in the column order of ``coincidence_branches``
_CLASSES = (CoincidenceClass.D_PLUS, CoincidenceClass.D_MINUS, CoincidenceClass.D_NULL)
_DNULL = _CLASSES.index(CoincidenceClass.D_NULL)
# BELL_OUTCOMES index of the D+ and D- heralds
_OUTCOME_CODE = np.array([BELL_OUTCOMES.index(o.value)
                          for o in (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS)], dtype=np.int8)
# DETECTOR_PAIRS index of the detector pairs of each class
_PAIR_OPTIONS = np.array([[DETECTOR_PAIRS.index(p) for p in CLASS_PAIRS[c]] for c in _CLASSES])
# DETECTORS index of both detectors of each DETECTOR_PAIRS entry
_PAIR_DETECTORS = np.array([[DETECTORS.index(d) for d in pair] for pair in DETECTOR_PAIRS],
                           dtype=np.int8)


def coincidence_branches(scenario: LinkScenario) -> tuple[list[float], float, np.ndarray]:
    """(eta, xi, weights): the per-try odds of each recordable coincidence.

    ``eta`` is each node's click probability per try in the hardware window
    and ``xi`` the two-photon contrast.  ``weights`` is (2, 3): row 0 a
    signal photon pair, row 1 one photon and one background click; columns
    the D+, D- and D-null classes.  A background click is equally likely on
    any detector, so it puts half as much into D-null as into D+ and D-:
    p_bg_herald / 2 into each of the three.
    """
    hw0 = scenario.hardware_window_offset
    eta = [node_detection_efficiency(scenario, i)
           * window_capture_probability(node.wavepacket, hw0, hw0 + scenario.hardware_window)
           for i, node in enumerate(scenario.nodes())]
    xi = indistinguishability(scenario.node1.wavepacket, scenario.node2.wavepacket,
                              scenario.wavepacket_delay, scenario.xi_max)
    dist = coincidence_distribution(xi)
    bg_mean = background_rate_at_station(scenario) * scenario.hardware_window
    p_bg = background_herald_probability(*eta, bg_mean)
    weights = np.array([[eta[0] * eta[1] * dist[c] for c in _CLASSES], [p_bg / 2] * 3])
    return eta, xi, weights


def signal_input(scenario: LinkScenario) -> DensityMatrix:
    """The [3,2,3,2] product of both nodes' Werner atom-photon states."""
    return tensor(*(
        _werner_atom_photon(min(1.0, node.atom_photon_visibility * scenario.ap_visibility_scale))
        for node in scenario.nodes()))


def memory_coherences(scenarios, n_trajectories: int, seed: int,
                      counters: dict | None = None) -> list:
    """Both nodes' 3x3 coherence matrices at their readout times, analyzer frame.

    One pair per scenario.  Node i's channel is built from its own
    ``trap``, ``field_env`` and ``temperature`` with seed ``2 seed + i + 1``;
    the scenarios that share all three share one build, sampled at each of
    their readout times.  Each build adds one to ``counters["channel_builds"]``
    and its trajectories times spin steps to ``counters["traj_steps"]``.
    """
    times = [[round(t, 12) for t in s.readout_times()] for s in scenarios]
    coherences = [[None, None] for _ in scenarios]
    for i in (0, 1):
        groups = {}
        for k, s in enumerate(scenarios):
            node = s.nodes()[i]
            groups.setdefault((node.trap, node.field_env, node.temperature), []).append(k)
        for (trap, env, temperature), members in groups.items():
            fam = dephasing_channel_family(trap, env, temperature,
                                           sorted({times[k][i] for k in members}),
                                           n_trajectories, seed=seed * 2 + i + 1)
            if counters is not None:
                counters["channel_builds"] += 1
                counters["traj_steps"] += n_trajectories * fam.meta["spin_steps"]
            for k in members:
                coherences[k][i] = fam.rotating_channel_at(times[k][i])
    return coherences


def mean_pair_operators(outcomes, xi: float, polarization_error_mean: float) -> np.ndarray:
    """(n, 16) photon-pair operators averaged over both photons' fibre residuals.

    A run draws each photon's residual as a rotation by an N(0, 4 eps)
    angle about an isotropic Stokes axis (stage 5 of ``run_sequence``),
    eps = ``polarization_error_mean``.  Averaged over the axis and angle,
    that rotation is the depolarizing map X -> l X + (1 - l) tr(X) I / 2
    with l = (1 + 2 E[cos angle]) / 3 = (1 + 2 exp(-2 eps)) / 3, applied here
    to each photon's (ket, bra) index pair of the ideal-fibre operators.
    """
    shrink = (1.0 + 2.0 * np.exp(-2.0 * polarization_error_mean)) / 3.0
    ideal = np.broadcast_to(np.eye(2, dtype=complex), (len(outcomes), 2, 2))
    ops = quantum.interference_pair_operators(outcomes, xi, ideal, ideal)
    # ops[n, j, l, J, L]: photon 1 indices (j, J), photon 2 indices (l, L)
    ops = ops.reshape(-1, 2, 2, 2, 2)
    half = np.eye(2) / 2.0
    ops = shrink * ops + (1.0 - shrink) * np.einsum("jJ,nalaL->njlJL", half, ops)
    ops = shrink * ops + (1.0 - shrink) * np.einsum("lL,njaJa->njlJL", half, ops)
    return ops.reshape(-1, 16)


def heralded_states(signal_in: DensityMatrix, coherences, pair_ops: np.ndarray) -> np.ndarray:
    """(n, 9, 9) atom-atom states of n signal heralds after both memories.

    Each state is linear in its herald's (16,) photon-pair operator, a row
    of ``pair_ops`` (see ``quantum.interference_pair_operators``).  The two
    memory channels, given as their 3x3 coherence matrices (c1, c2), act on
    the [3,2,3,2] input as one Schur multiplier kron(c1, c2); its unit
    diagonal leaves every herald probability unchanged.
    """
    return quantum.herald(_memory_input(signal_in, coherences), pair_ops)[1]


def _memory_input(signal_in: DensityMatrix, coherences) -> np.ndarray:
    """The (16, 81) ``herald_input`` of the signal input times both memories' Schur multiplier."""
    c1, c2 = coherences
    return quantum.herald_input(signal_in.matrix) * np.kron(c1, c2).ravel()


@lru_cache(maxsize=len(SCHEDULES))
def _readout_rows(settings: tuple) -> np.ndarray:
    """Read-only (s * 4 + 3, 81) rows of a settings cycle: readout, Bell states, trace.

    The s * 4 readout rows, then one row per BellOutcome and vec(I).
    <v|rho|v> is the dot product of conj(v) (x) v with the flattened state.
    """
    ops = quantum.readout_operators(*zip(*(
        (AtomBasisSetting(a, MeasurementPlane(p)), AtomBasisSetting(b, MeasurementPlane(p)))
        for a, b, p in settings))).reshape(-1, 81)
    bell = [np.outer(v.conj(), v).ravel()
            for v in (atom_bell_state(o).amplitudes for o in BellOutcome)]
    rows = np.vstack([ops, *bell, np.eye(9).ravel()])
    rows.setflags(write=False)
    return rows


def readout_matrix(signal_in: DensityMatrix, coherences, settings) -> tuple[np.ndarray, np.ndarray]:
    """(q, background): what ``herald_readout`` reads heralds with, once per run.

    ``q`` is the (16, 4s + 3) product of the memories' input (see
    ``heralded_states``) with ``_readout_rows`` of the s ``settings``, so
    that P q is the readout of the unnormalized state of pair operator P.
    ``background`` is the (4s + 2,) readout of a background herald's mixed
    pair: the readout probabilities of each setting, then the fidelities
    with each BellOutcome.
    """
    rows = _readout_rows(tuple(settings))
    background = (rows[:-1] @ _MIXED_PAIR.ravel()).real
    return _memory_input(signal_in, coherences) @ rows.T, background


def herald_readout(q: np.ndarray, pair_ops: np.ndarray) -> np.ndarray:
    """(n, 4s + 2) readout of n heralds, the row of ``background`` in ``readout_matrix``.

    Every column is linear in the herald's pair operator P, so the readout
    is Re(P q) over its trace column, without forming the (9, 9) state:
    the real part of Tr(A rho) for Hermitian A is that of Tr(A (rho +
    rho^dagger) / 2).  Raises if any herald has zero probability.
    """
    values = (pair_ops @ q).real
    prob = values[:, -1:]
    if np.any(prob < 1e-15):
        raise ValueError("the herald has zero probability on this input")
    return values[:, :-1] / prob


def _signal_pair_blocks(signal, outcome_codes, xi, angles, axes):
    """(rows, sig, pair_ops) of each block of _STATE_BLOCK heralds.

    ``rows`` is the block's slice, ``sig`` the block indices of its signal
    heralds and ``pair_ops`` their (len(sig), 16) photon-pair operators, from
    their BellOutcome codes and residual draws (one row of ``angles`` and
    ``axes`` per signal herald, in herald order).
    """
    bell = list(BellOutcome)
    residual_row = np.cumsum(signal) - 1
    for start in range(0, len(signal), _STATE_BLOCK):
        rows = slice(start, min(start + _STATE_BLOCK, len(signal)))
        sig = np.flatnonzero(signal[rows])
        residual = residual_row[rows][sig]
        u = rotation_su2(axes[residual], angles[residual])
        outcomes = [bell[c] for c in outcome_codes[rows][sig].tolist()]
        yield rows, sig, quantum.interference_pair_operators(outcomes, xi, u[:, 0], u[:, 1])


def _sample_readout(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """READOUTS index of each herald: the first cumulative probability above its uniform."""
    above = uniforms[:, None] < np.cumsum(probs[:, :3], axis=1)
    return np.argmax(np.column_stack([above, np.ones(len(probs), bool)]), axis=1)


def run_sequence(scenario: LinkScenario, schedule: str = "three-basis",
                 target_events: int = 1000, seed: int = 0,
                 mode: str = "density-matrix", n_trajectories: int = 2000) -> RunResult:
    """Simulate heralded entanglement generation events.

    Every random number is drawn first, in whole arrays, stage by stage
    (numbered below).  After a PSD check of both memories' coherence
    matrices, a batched pass, in blocks of ``_STATE_BLOCK`` heralds, reads
    every herald's readout probabilities and Bell fidelity straight from
    its photon-pair operator (``herald_readout``), so no 9x9 state is
    formed.  ``mode``
    "density-matrix" returns a result whose ``states`` are built when first
    read; "sampled-clicks" samples binary readout outcomes from uniforms
    drawn last (stage 8), so the two modes of one seed share every try,
    click, probability and fidelity.
    """
    if mode not in ("density-matrix", "sampled-clicks"):
        raise ValueError(f"unknown mode {mode!r}")
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    settings_cycle = SCHEDULES[schedule]
    if target_events < 0:
        raise ValueError("target_events must be >= 0")
    if seed < 0:
        raise ValueError("seed must be >= 0")

    rng = np.random.default_rng(np.random.Philox(key=[np.uint64(seed), np.uint64(0)]))
    eta, xi, weights = coincidence_branches(scenario)
    p_event, p_herald = weights.sum(), weights[:, :_DNULL].sum()
    if p_herald <= 0.0:
        raise ValueError("this scenario records no heralds")
    cdf = np.cumsum(weights.ravel()) / p_event
    cdf[-1] = 1.0
    n_cls = len(_CLASSES)

    # 1. branches (flat index into weights) in batches, cut at the target-th herald
    batches, found = [np.empty(0, np.int64)], 0
    while found < target_events:
        size = int((target_events - found) * p_event / p_herald) + 64
        batch = cdf.searchsorted(rng.random(size), side="right")
        batches.append(batch)
        found += np.count_nonzero(batch % n_cls != _DNULL)
    branch = np.concatenate(batches)
    if target_events:
        branch = branch[:np.flatnonzero(branch % n_cls != _DNULL)[target_events - 1] + 1]
    background, cls = np.divmod(branch, n_cls)
    background = background.astype(bool)
    herald = cls != _DNULL
    n = len(branch)
    # 2. gaps: the live-try count of each coincidence
    tries = np.cumsum(rng.geometric(p_event, n))
    # 3. detector pairs, two per class
    pair = _PAIR_OPTIONS[cls, rng.integers(0, _PAIR_OPTIONS.shape[1], n)]
    # 4. click offsets from the nominal arrival: both photons of a signal pair;
    # one photon (node 1 with odds eta1 : eta2) and one flat click of a background pair.
    # eta already holds each photon's capture in the hardware window, so a
    # photon offset (emission plus sync jitter) outside it is drawn again
    hw = (scenario.hardware_window_offset,
          scenario.hardware_window_offset + scenario.hardware_window)
    bg = np.flatnonzero(background)
    flat_node = (rng.random(len(bg)) < eta[0] / (eta[0] + eta[1])).astype(int)
    photon = np.ones((n, 2), bool)
    photon[bg, flat_node] = False
    offsets = np.empty((n, 2))
    for i, node in enumerate(scenario.nodes()):
        todo = np.flatnonzero(photon[:, i])
        while len(todo):
            offsets[todo, i] = (node.wavepacket.sample_emission_times(len(todo), rng)
                                + rng.normal(0.0, node.sync_jitter_sigma, len(todo)))
            todo = todo[(offsets[todo, i] < hw[0]) | (offsets[todo, i] > hw[1])]
    offsets[bg, flat_node] = rng.uniform(*hw, len(bg))
    # 5. fibre residual (angle, axis) of both photons of every signal herald
    signal = ~background[herald]
    n_signal = int(np.count_nonzero(signal))
    angles = rng.normal(0.0, 2.0 * np.sqrt(scenario.polarization_error_mean), (n_signal, 2))
    axes = rng.normal(size=(n_signal, 2, 3))
    # 6. wall times of the heralds
    wall, dead = wall_times(scenario, tries[herald], rng)
    # 7. singles per node for detection-time histograms, subsampled to
    # MAX_SINGLES; the flat background spans HISTOGRAM_SPAN for clean side bands
    n_tries = int(tries[-1]) if n else 0
    signal_code, mixed_code, background_code = range(len(CLICK_ORIGINS))
    single = DETECTORS.index("single")
    bg_rate = background_rate_at_station(scenario)
    singles = []
    for i, node in enumerate(scenario.nodes()):
        n_photons = int(rng.binomial(n_tries, eta[i]))
        n_bg = int(rng.poisson(n_tries * bg_rate * (HISTOGRAM_SPAN[1] - HISTOGRAM_SPAN[0])))
        keep = min(1.0, MAX_SINGLES / max(n_photons + n_bg, 1))
        singles += [(i, single, signal_code,
                     node.wavepacket.sample_emission_times(round(n_photons * keep), rng)),
                    (i, single, background_code,
                     rng.uniform(*HISTOGRAM_SPAN, size=round(n_bg * keep)))]
    # 8. readout uniforms last, so both modes share every draw before them
    herald_count = len(wall)
    uniforms = rng.random(herald_count) if mode == "sampled-clicks" else None

    counters = {"channel_builds": 0, "traj_steps": 0, "readout_blocks": 0,
                "heralds": herald_count}
    start = time.perf_counter()
    coherences = memory_coherences([scenario], n_trajectories, seed, counters)[0]
    channel_s = time.perf_counter() - start
    signal_in = signal_input(scenario)
    # no state is checked on its own: the input (a DensityMatrix) and both
    # coherence matrices are PSD, so every herald's state is, up to the
    # inputs' PSD_TOL and HERM_TOL over its herald probability
    quantum.check_psd(np.asarray(coherences))

    # readout probabilities and Bell fidelities in blocks, from the pair operators
    outcome_codes = _OUTCOME_CODE[cls[herald]]
    setting_index = np.arange(herald_count) % len(settings_cycle)
    q, background_row = readout_matrix(signal_in, coherences, settings_cycle)
    probs = np.empty((herald_count, 4))
    fids = np.empty(herald_count)
    start = time.perf_counter()
    for rows, sig, pair_ops in _signal_pair_blocks(signal, outcome_codes, xi, angles, axes):
        counters["readout_blocks"] += 1
        values = np.tile(background_row, (rows.stop - rows.start, 1))
        values[sig] = herald_readout(q, pair_ops)
        h = np.arange(len(values))
        probs[rows] = values[h[:, None], 4 * setting_index[rows, None] + np.arange(4)]
        fids[rows] = values[h, 4 * len(settings_cycle) + outcome_codes[rows]]
    timings = {"channel_s": channel_s, "readout_s": time.perf_counter() - start}
    if uniforms is not None:
        readout = _sample_readout(probs, uniforms)
        herald_draws = None
    else:
        readout = np.full(herald_count, -1)
        herald_draws = (signal_in, coherences, xi, angles, axes)
    herald_offsets = offsets[herald]
    window = (scenario.acceptance_window, scenario.acceptance_offset)
    accepted, _ = acceptance_filter(herald_offsets, *window)
    alphas, betas, planes = zip(*settings_cycle)
    events = EventTable(
        wall_time_s=wall, try_index=tries[herald],
        outcome=outcome_codes, detectors=_PAIR_DETECTORS[pair[herald]],
        click_ns=herald_offsets * 1e9, accepted=accepted, signal=signal,
        alpha_rad=np.array(alphas)[setting_index], beta_rad=np.array(betas)[setting_index],
        plane=np.array([PLANES.index(p) for p in planes], dtype=np.int8)[setting_index],
        fidelity=fids, probabilities=probs, readout=readout)
    n_dnull_accepted = int(acceptance_filter(offsets[~herald], *window)[0].sum())

    # both clicks of every coincidence, then the singles
    clicks = ClickTable.from_blocks(
        [(np.tile([0, 1], n), _PAIR_DETECTORS[pair].ravel(),
          np.repeat(np.where(background, mixed_code, signal_code), 2), offsets.ravel())]
        + singles)

    wall_time = float(wall[-1]) if herald_count else 0.0
    rep_rate = repetition_rate(scenario)
    duty = duty_cycle(scenario.sequence, 1.0 / rep_rate)
    chash = config_hash(scenario)
    summary = {
        "scenario": scenario.name,
        "config_hash": chash,
        "mode": mode,
        "schedule": schedule,
        "seed": seed,
        "n_events": herald_count,
        "n_tries": n_tries,
        "wall_time_s": wall_time,
        "measured_event_rate_hz": herald_count / wall_time if wall_time > 0 else 0.0,
        "measured_success_probability": herald_count / n_tries if n_tries else 0.0,
        "accepted_fraction": int(accepted.sum()) / herald_count if herald_count else 0.0,
        "n_dnull": int(np.count_nonzero(~herald)),
        "n_dnull_accepted": n_dnull_accepted,
        "herald_counts": {c.value: int(np.count_nonzero(outcome_codes == code))
                          for c, code in zip(_CLASSES, _OUTCOME_CODE.tolist())},
        "xi": xi,
        "sbr_model": sbr_model(scenario),
        "model": {
            "success_probability": success_probability(scenario),
            "repetition_rate_hz": rep_rate,
            "duty_cycle_nominal": scenario.duty_cycle_nominal,
            # the expected live fraction of the clock this run's wall times follow
            "duty_cycle": duty,
            "event_rate_hz": event_rate(scenario, repetition_hz=rep_rate, duty=duty),
        },
        "mean_state_fidelity": float(np.mean(fids)) if herald_count else None,
        "dead_time_s": float(dead[-1]) if herald_count else 0.0,
    }
    return RunResult(chash, mode, events, summary, clicks, herald_draws, timings, counters)

