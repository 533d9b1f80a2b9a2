"""Discrete-event simulation of the full two-node experiment.

Tries are not iterated one by one: the simulator jumps geometrically between
tries that produce a recordable two-photon coincidence (heralds, discarded
same-polarization coincidences, and background-assisted heralds), while a
block-structured clock converts try indices into wall time including
cooling, presence checks and trap-reload dead times.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .. import quantum
from ..analysis import (
    ClickTable,
    CorrelationDataset,
    EventTable,
    acceptance_filter,
    dataset_from_events,
)
from ..analysis.tables import BELL_OUTCOMES, CLICK_ORIGINS, DETECTORS, PLANES
from ..memory import dephasing_channel_family
from ..photonics import (
    CoincidenceClass,
    coincidence_distribution,
    indistinguishability,
    window_capture_probability,
)
from ..photonics.bsm import CLASS_PAIRS, DETECTOR_PAIRS
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
from .model import _memory_env
from .rates import (
    background_herald_probability,
    background_rate_at_station,
    block_model,
    event_rate,
    node_detection_efficiency,
    repetition_rate,
    sbr_model,
    success_probability,
)
from .scenario import CAL_SIGMA_SHOT_EFF, LinkScenario, config_hash

# herald-group mapping
_CLASS_TO_OUTCOME = {
    CoincidenceClass.D_PLUS: BellOutcome.PSI_PLUS,
    CoincidenceClass.D_MINUS: BellOutcome.PSI_MINUS,
}

# recording span of the singles histogram around the nominal arrival
HISTOGRAM_SPAN = (-500e-9, 500e-9)
# singles kept per node for that histogram; beyond it the stream is subsampled
MAX_SINGLES = 20000

SCHEDULES = {
    "three-basis": (
        [(0.0, 0.0, "equator"), (np.pi / 2, 0.0, "equator"),
         (np.pi / 4, np.pi / 4, "equator"), (3 * np.pi / 4, np.pi / 4, "equator"),
         (0.0, 0.0, "z"), (np.pi / 2, 0.0, "z")]
    ),
    "fringe": (
        [(np.radians(a), 0.0, "equator") for a in (0, 22.5, 45, 67.5, 90)]
        + [(np.radians(a), np.pi / 4, "equator") for a in (45, 67.5, 90, 112.5, 135)]
    ),
    "chsh": (
        [(np.radians(22.5), 0.0, "equator"), (np.radians(67.5), 0.0, "equator"),
         (np.radians(67.5), np.radians(45), "equator"),
         (np.radians(112.5), np.radians(45), "equator")]
    ),
}


@dataclass
class RunResult:
    """A run's events and clicks as columns, plus its states in density-matrix mode."""

    scenario_name: str
    config_hash: str
    mode: str
    seed: int
    events: EventTable
    summary: dict
    clicks: ClickTable
    states: np.ndarray | None = None     # (n, 9, 9), density-matrix mode only

    @cached_property
    def dataset(self) -> CorrelationDataset:
        """Correlation counts of the accepted heralds, built on first access."""
        return dataset_from_events(self.events, self.mode)


class _SequenceClock:
    """Converts live-try indices to wall time through the block structure.

    A block (see ``rates.block_model``) holds ``tries_per_block`` live tries
    in bursts of ``tries_per_cooling_block``, each burst followed by
    cooling, and ends in a presence check.  A trap found empty at the check
    is reloaded, and the block pauses for the longest reload among its empty
    traps.  ``rates.duty_cycle`` is the expected live fraction of this clock.
    """

    def __init__(self, scenario: LinkScenario, rng: np.random.Generator):
        self.seq = scenario.sequence
        self.period = 1.0 / repetition_rate(scenario)
        self.rng = rng
        self.tries_per_block, self.p_survive = block_model(self.seq, self.period)
        self.wall = 0.0
        self.tries_in_block = 0
        self.dead_time = 0.0

    def advance(self, k: int) -> float:
        """Advance k live tries; returns the wall time of the last one."""
        seq = self.seq
        per_burst = seq.tries_per_cooling_block
        q0 = self.tries_in_block
        # blocks hold whole bursts, so the burst count needs no block split
        blocks, self.tries_in_block = divmod(q0 + k, self.tries_per_block)
        self.wall += k * self.period
        self.wall += ((q0 + k) // per_burst - q0 // per_burst) * seq.cooling_duration
        if blocks:
            self.wall += blocks * seq.presence_check_duration
            lost = self.rng.random((blocks, 2)) > self.p_survive
            reload = np.zeros((blocks, 2))
            reload[lost] = seq.loading_time * self.rng.uniform(0.4, 1.6, int(lost.sum()))
            pause = float(reload.max(axis=1).sum())
            self.wall += pause
            self.dead_time += pause
        return self.wall


def _werner_atom_photon(visibility: float) -> DensityMatrix:
    pure = atom_photon_state().density_matrix()
    mixed = np.eye(6, dtype=complex) / 6.0
    return DensityMatrix(pure.spec, visibility * pure.matrix + (1 - visibility) * mixed)


# background heralds carry the maximally mixed qubit pair, which no memory changes
_MIXED_PAIR = np.kron(np.diag([0.5, 0.0, 0.5]), np.diag([0.5, 0.0, 0.5])).astype(complex)

# (angles, axes) of a herald's two photons when no residual rotation is drawn
_NO_RESIDUAL = ((0.0, 0.0), (0.0, 0.0, 1.0) * 2)

# each coincidence is a signal herald, a background-assisted herald or a D-null pair
_SIGNAL, _BACKGROUND, _DNULL = range(3)
_OUTCOME_CODE = {cls: BELL_OUTCOMES.index(o.value) for cls, o in _CLASS_TO_OUTCOME.items()}
# DETECTORS index of both detectors of each DETECTOR_PAIRS entry
_PAIR_DETECTORS = np.array([[DETECTORS.index(d) for d in pair] for pair in DETECTOR_PAIRS],
                           dtype=np.int8)
_CLASS_PAIR_INDEX = {cls: tuple(DETECTOR_PAIRS.index(p) for p in pairs)
                     for cls, pairs in CLASS_PAIRS.items()}


def heralded_states(signal_in: DensityMatrix, coherences, xi: float, outcomes,
                    u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """(n, 9, 9) atom-atom states of n signal heralds after both memories.

    Each state is linear in its herald's photon-pair operator (see
    ``quantum.interference_pair_operators``, with residuals u1, u2 of shape
    (n, 2, 2)).  The two memory channels, given as their 3x3 coherence
    matrices (c1, c2), act on the [3,2,3,2] input as one Schur multiplier
    kron(c1, c2); its unit diagonal leaves every herald probability
    unchanged.
    """
    c1, c2 = coherences
    inputs = quantum.herald_input(signal_in.matrix) * np.kron(c1, c2).ravel()
    _, states = quantum.herald(inputs, quantum.interference_pair_operators(outcomes, xi, u1, u2))
    return states


def event_readout(states: np.ndarray, settings, setting_index,
                  outcomes) -> tuple[np.ndarray, np.ndarray]:
    """Readout probabilities (n, 4) and Bell fidelities (n,) of (n, 9, 9) states.

    State h is read out at the (alpha, beta, plane) schedule entry
    ``settings[setting_index[h]]`` (outcomes in ``OUTCOME_KEYS`` order) and
    compared with the atomic Bell state of ``outcomes[h]``.
    """
    flat = states.reshape(-1, 81)
    rows = np.arange(len(flat))
    ops = quantum.readout_operators(*zip(*(
        (AtomBasisSetting(a, MeasurementPlane(p)), AtomBasisSetting(b, MeasurementPlane(p)))
        for a, b, p in settings))).reshape(-1, 81)
    probs = (flat @ ops.T).real.reshape(len(flat), len(settings), 4)[rows, setting_index]
    kinds = list(BellOutcome)
    # <v|rho|v> is the dot product of conj(v) (x) v with the flattened state
    bell = np.array([np.outer(v.conj(), v).ravel()
                     for v in (atom_bell_state(o).amplitudes for o in kinds)])
    fids = (flat @ bell.T).real[rows, np.array([kinds.index(o) for o in outcomes], dtype=int)]
    return probs, fids


def run_sequence(scenario: LinkScenario, schedule: str = "three-basis",
                 target_events: int = 1000, seed: int = 0,
                 mode: str = "density-matrix", n_trajectories: int = 2000,
                 memory_noise_sigma=CAL_SIGMA_SHOT_EFF) -> RunResult:
    """Simulate heralded entanglement generation events.

    The event loop only draws random numbers; one batched pass after it
    builds every herald's atom-atom state, readout probabilities and Bell
    fidelity.  ``mode`` "density-matrix" also returns the states;
    "sampled-clicks" samples binary readout outcomes.  Both are
    deterministic given the seed.
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
    clock = _SequenceClock(scenario, rng)

    # per-try probabilities in the hardware coincidence window
    hw0 = scenario.hardware_window_offset
    hw1 = hw0 + scenario.hardware_window
    eta = []
    for i in (0, 1):
        node = scenario.nodes()[i]
        eta.append(node_detection_efficiency(scenario, i)
                   * window_capture_probability(node.wavepacket, hw0, hw1))
    xi = indistinguishability(scenario.node1.wavepacket, scenario.node2.wavepacket,
                              scenario.wavepacket_delay, scenario.xi_max)
    dist = coincidence_distribution(xi)
    p_pair = eta[0] * eta[1]
    bg_mean_hw = background_rate_at_station(scenario)["total"] * scenario.hardware_window
    p_bg_herald = background_herald_probability(*eta, bg_mean_hw)
    # a branch is the class of a signal coincidence, or a background-assisted herald
    branches = [CoincidenceClass.D_PLUS, CoincidenceClass.D_MINUS, CoincidenceClass.D_NULL,
                "background"]
    branch_weights = np.array([p_pair * dist[b] for b in branches[:3]] + [p_bg_herald])
    p_event = branch_weights.sum()
    # Generator.choice(p=...) draws one uniform and searches this CDF; doing
    # it here keeps the stream and skips choice's per-call checks
    branch_cdf = np.cumsum(branch_weights / p_event)
    branch_cdf /= branch_cdf[-1]

    # memory channels (coherence matrices) at the two readout times, analyzer frame
    coherences = []
    for i, (node, t) in enumerate(zip(scenario.nodes(), scenario.readout_times())):
        env = _memory_env(node, memory_noise_sigma)
        fam = dephasing_channel_family(node.trap, env, node.temperature,
                                       [round(t, 12)], n_trajectories,
                                       seed=seed * 2 + i + 1)
        coherences.append(fam.rotating_channel_at(round(t, 12)))

    polarization_sigma = 2.0 * np.sqrt(scenario.polarization_error_mean)

    # click times relative to each photon's nominal arrival
    def signal_offset(node):
        return (node.wavepacket.sample_emission_times(1, rng)[0]
                + rng.normal(0.0, node.sync_jitter_sigma))

    # the loop only draws; states and readout come from one pass after it.
    # One row per coincidence (herald or D-null pair), in loop order:
    kinds = array("b")             # _SIGNAL, _BACKGROUND or _DNULL
    pair_index = array("b")        # index into DETECTOR_PAIRS
    offsets = array("d")           # node-1 and node-2 click offsets
    # one row per herald:
    try_indices = array("q")
    wall_times = array("d")
    outcome_codes = array("b")     # index into BELL_OUTCOMES
    residual_angles = array("d")   # fibre residual of each photon
    residual_axes = array("d")
    uniforms = array("d")          # sampled-clicks readout draws
    try_index = 0
    wall_time = 0.0

    while len(try_indices) < target_events:
        gap = int(rng.geometric(p_event))
        try_index += gap
        wall_time = clock.advance(gap)
        branch = branches[branch_cdf.searchsorted(rng.random(), side="right")]
        if branch == "background":
            cls = CoincidenceClass.D_PLUS if rng.random() < 0.5 else CoincidenceClass.D_MINUS
        else:
            cls = branch
        options = _CLASS_PAIR_INDEX[cls]
        pair_index.append(options[rng.integers(0, len(options))])

        if cls is CoincidenceClass.D_NULL:
            kinds.append(_DNULL)
            offsets.extend((signal_offset(scenario.node1), signal_offset(scenario.node2)))
            continue

        angles, axes = _NO_RESIDUAL
        if branch == "background":
            # one signal photon plus one background click (dominant term)
            sig_node = 0 if rng.random() < eta[0] / (eta[0] + eta[1]) else 1
            offs = [0.0, 0.0]
            offs[sig_node] = signal_offset(scenario.nodes()[sig_node])
            offs[1 - sig_node] = rng.uniform(hw0, hw1)
            kinds.append(_BACKGROUND)
        else:
            offs = (signal_offset(scenario.node1), signal_offset(scenario.node2))
            kinds.append(_SIGNAL)
            if scenario.polarization_error_mean > 0:
                a1, x1, a2, x2 = (rng.normal(0.0, polarization_sigma), rng.normal(size=3),
                                  rng.normal(0.0, polarization_sigma), rng.normal(size=3))
                angles, axes = (a1, a2), (*x1, *x2)
        if mode == "sampled-clicks":
            uniforms.append(rng.random())
        offsets.extend(offs)
        residual_angles.extend(angles)
        residual_axes.extend(axes)
        try_indices.append(try_index)
        wall_times.append(wall_time)
        outcome_codes.append(_OUTCOME_CODE[cls])
    herald_count = len(try_indices)
    kinds = np.asarray(kinds)
    pair_index = np.asarray(pair_index)
    offsets = np.asarray(offsets).reshape(-1, 2)
    herald = kinds != _DNULL
    outcome_codes = np.asarray(outcome_codes)
    bell = list(BellOutcome)
    outcomes = [bell[c] for c in outcome_codes.tolist()]

    # one batched pass: residuals, states, readout probabilities, fidelities
    residuals = rotation_su2(np.asarray(residual_axes).reshape(-1, 3),
                             np.asarray(residual_angles)).reshape(-1, 2, 2, 2)
    states = np.tile(_MIXED_PAIR, (herald_count, 1, 1))
    signal = kinds[herald] == _SIGNAL
    sig = np.flatnonzero(signal)
    signal_in = tensor(*(
        _werner_atom_photon(min(1.0, node.atom_photon_visibility * scenario.ap_visibility_scale))
        for node in scenario.nodes()))
    states[sig] = heralded_states(signal_in, coherences, xi, [outcomes[h] for h in sig],
                                  residuals[sig, 0], residuals[sig, 1])
    quantum.check_density_matrices(states)
    setting_index = np.arange(herald_count) % len(settings_cycle)
    probs, fids = event_readout(states, settings_cycle, setting_index, outcomes)
    del residuals
    if mode == "sampled-clicks":
        states = None
        # the first cumulative threshold above r picks uu, ud, du or dd
        above = np.asarray(uniforms)[:, None] < np.cumsum(probs[:, :3], axis=1)
        readout = np.argmax(np.column_stack([above, np.ones(herald_count, bool)]), axis=1)
    else:
        readout = np.full(herald_count, -1)
    herald_offsets = offsets[herald]
    window = (scenario.acceptance_window, scenario.acceptance_offset)
    accepted, _ = acceptance_filter(herald_offsets, *window)
    alphas, betas, planes = zip(*settings_cycle)
    events = EventTable(
        wall_time_s=np.asarray(wall_times), try_index=np.asarray(try_indices),
        outcome=outcome_codes, detectors=_PAIR_DETECTORS[pair_index[herald]],
        click_ns=herald_offsets * 1e9, accepted=accepted, signal=signal,
        alpha_rad=np.array(alphas)[setting_index], beta_rad=np.array(betas)[setting_index],
        plane=np.array([PLANES.index(p) for p in planes], dtype=np.int8)[setting_index],
        fidelity=fids, probabilities=probs, readout=readout)
    n_dnull_accepted = int(acceptance_filter(offsets[~herald], *window)[0].sum())

    # both clicks of every coincidence, then a subsampled singles stream per
    # node for detection-time histograms; the flat background is continuous,
    # so it is recorded over a wide span around the arrival window to give
    # the estimator clean side bands
    signal_code, mixed_code, background_code = range(len(CLICK_ORIGINS))
    single = DETECTORS.index("single")
    blocks = [(np.tile([0, 1], len(kinds)), _PAIR_DETECTORS[pair_index].ravel(),
               np.repeat(np.where(kinds == _BACKGROUND, mixed_code, signal_code), 2),
               offsets.ravel())]
    hist_lo, hist_hi = HISTOGRAM_SPAN
    if try_index > 0:
        for i in (0, 1):
            node = scenario.nodes()[i]
            n_signal = int(rng.binomial(try_index, eta[i]))
            n_bg = int(rng.poisson(try_index * background_rate_at_station(scenario)["total"]
                                   * (hist_hi - hist_lo)))
            factor = min(1.0, MAX_SINGLES / max(n_signal + n_bg, 1))
            k_sig = int(round(n_signal * factor))
            k_bg = int(round(n_bg * factor))
            t_sig = node.wavepacket.sample_emission_times(k_sig, rng)
            t_bg = rng.uniform(hist_lo, hist_hi, size=k_bg)
            blocks += [(i, single, signal_code, t_sig), (i, single, background_code, t_bg)]
    clicks = ClickTable.from_blocks(blocks)

    summary = {
        "scenario": scenario.name,
        "config_hash": config_hash(scenario),
        "mode": mode,
        "schedule": schedule,
        "seed": seed,
        "n_events": herald_count,
        "n_tries": try_index,
        "wall_time_s": wall_time,
        "measured_event_rate_hz": herald_count / wall_time if wall_time > 0 else 0.0,
        "measured_success_probability": herald_count / try_index if try_index else 0.0,
        "accepted_fraction": int(accepted.sum()) / herald_count if herald_count else 0.0,
        "n_dnull": int(np.count_nonzero(~herald)),
        "n_dnull_accepted": n_dnull_accepted,
        "herald_counts": {cls.value: int(np.count_nonzero(outcome_codes == code))
                          for cls, code in _OUTCOME_CODE.items()},
        "xi": xi,
        "sbr_model": sbr_model(scenario),
        "model": {
            "success_probability": success_probability(scenario),
            "repetition_rate_hz": repetition_rate(scenario),
            "duty_cycle_nominal": scenario.duty_cycle_nominal,
            "event_rate_hz": event_rate(scenario),
        },
        "mean_state_fidelity": float(np.mean(fids)) if herald_count else None,
        "dead_time_s": clock.dead_time,
    }
    return RunResult(scenario.name, config_hash(scenario), mode, seed, events, summary,
                     clicks, states)
