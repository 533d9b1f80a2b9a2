"""Discrete-event simulation of the full two-node experiment.

Tries are not iterated one by one: the simulator jumps geometrically between
tries that produce a recordable two-photon coincidence (heralds, discarded
same-polarization coincidences, and background-assisted heralds), while a
block-structured clock converts try indices into wall time including
cooling, presence checks and trap-reload dead times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import quantum
from ..analysis import CorrelationDataset, dataset_from_records
from ..memory import dephasing_channel_family
from ..photonics import (
    CoincidenceClass,
    coincidence_distribution,
    indistinguishability,
    window_capture_probability,
)
from ..photonics.bsm import sample_pair
from ..photonics.polarization import rotation_su2
from ..quantum import (
    AtomBasisSetting,
    BellOutcome,
    DensityMatrix,
    HilbertSpec,
    MeasurementPlane,
    atom_bell_state,
    atom_photon_state,
    fidelity,
    joint_outcome_probabilities,
    tensor,
)
from .model import _memory_env
from .rates import (
    background_rate_at_station,
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


@dataclass(frozen=True)
class HeraldedEvent:
    """One successful entanglement-generation event."""

    index: int
    try_index: int
    wall_time: float
    bell_outcome: str
    detectors: tuple[str, str]
    click_offsets: tuple[float, float]    # seconds, relative to nominal arrival
    accepted: bool
    origin: str                           # "signal" or "background" (truth)
    alpha: float
    beta: float
    plane: str
    state: DensityMatrix | None = None
    probabilities: dict | None = None
    state_fidelity: float | None = None
    outcome1: str | None = None
    outcome2: str | None = None

    def readout_record(self):
        return {
            "wall_time_s": self.wall_time,
            "try_index": self.try_index,
            "bell_outcome": self.bell_outcome,
            "detector1": self.detectors[0],
            "detector2": self.detectors[1],
            "click1_ns": self.click_offsets[0] * 1e9,
            "click2_ns": self.click_offsets[1] * 1e9,
            "accepted": self.accepted,
            "origin": self.origin,
            "alpha_rad": self.alpha,
            "beta_rad": self.beta,
            "plane": self.plane,
            "fidelity": self.state_fidelity,
            "probabilities": self.probabilities,
            "outcome1": self.outcome1,
            "outcome2": self.outcome2,
        }


@dataclass
class RunResult:
    scenario_name: str
    config_hash: str
    mode: str
    seed: int
    events: list
    dataset: CorrelationDataset
    summary: dict
    clicks: list = field(default_factory=list)


class _SequenceClock:
    """Converts live-try indices to wall time through the block structure.

    A block holds ``tries_per_block`` live tries in bursts of
    ``tries_per_cooling_block``, each burst followed by cooling, and ends in
    a presence check.  A trap found empty at the check is reloaded, and the
    block pauses for the longest reload among its empty traps.
    """

    def __init__(self, scenario: LinkScenario, rng: np.random.Generator):
        self.seq = scenario.sequence
        self.period = 1.0 / repetition_rate(scenario)
        self.rng = rng
        burst = self.seq.tries_per_cooling_block * self.period + self.seq.cooling_duration
        self.tries_per_block = max(
            self.seq.tries_per_cooling_block,
            int(self.seq.block_period / burst) * self.seq.tries_per_cooling_block,
        )
        elapsed = self.seq.block_period + self.seq.presence_check_duration
        self.p_survive = np.exp(-elapsed / self.seq.trap_lifetime)
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


def _random_small_rotation(rng: np.random.Generator, mean_error: float) -> np.ndarray:
    if mean_error <= 0:
        return np.eye(2, dtype=complex)
    theta = rng.normal(0.0, 2.0 * np.sqrt(mean_error))
    axis = rng.normal(size=3)
    return rotation_su2(axis, theta)


def _mixed_qubit_pair() -> DensityMatrix:
    """Maximally mixed two-qubit state embedded in the qutrit pair."""
    qubit = np.diag([0.5, 0.0, 0.5]).astype(complex)
    return DensityMatrix(HilbertSpec([3, 3]), np.kron(qubit, qubit))


def run_sequence(scenario: LinkScenario, schedule="three-basis",
                 target_events: int = 1000, seed: int = 0,
                 mode: str = "density-matrix", n_trajectories: int = 2000,
                 memory_noise_sigma=CAL_SIGMA_SHOT_EFF,
                 collect_clicks: bool = True, max_singles: int = 20000) -> RunResult:
    """Simulate heralded entanglement generation events.

    ``mode`` "density-matrix" attaches the exact atom-atom state and readout
    probabilities to every event; "sampled-clicks" additionally samples
    binary readout outcomes.  Both are deterministic given the seed.
    """
    if mode not in ("density-matrix", "sampled-clicks"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(schedule, str):
        settings_cycle = SCHEDULES[schedule]
        schedule_name = schedule
    else:
        settings_cycle = list(schedule)
        schedule_name = "custom"
    if target_events < 0:
        raise ValueError("target_events must be >= 0")

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
    p_bg_herald = 0.5 * (eta[0] * (1 - eta[1]) + eta[1] * (1 - eta[0])) * bg_mean_hw \
        + 0.25 * bg_mean_hw**2
    branch_probs = {
        "dplus": p_pair * dist[CoincidenceClass.D_PLUS],
        "dminus": p_pair * dist[CoincidenceClass.D_MINUS],
        "dnull": p_pair * dist[CoincidenceClass.D_NULL],
        "background": p_bg_herald,
    }
    p_event = sum(branch_probs.values())
    branch_names = list(branch_probs)
    branch_weights = np.array([branch_probs[k] for k in branch_names]) / p_event

    # memory channels at the two readout times (analyzer frame)
    channels = []
    for i, (node, t) in enumerate(zip(scenario.nodes(), scenario.readout_times())):
        env = _memory_env(node, memory_noise_sigma)
        fam = dephasing_channel_family(node.trap, env, node.temperature,
                                       [round(t, 12)], n_trajectories,
                                       seed=seed * 2 + i + 1)
        channels.append(fam.rotating_channel_at(round(t, 12)))

    # per-run constants of the event loop; none of them draws random numbers
    bell_targets = {o: atom_bell_state(o) for o in BellOutcome}
    signal_in = tensor(*(
        _werner_atom_photon(min(1.0, node.atom_photon_visibility * scenario.ap_visibility_scale))
        for node in scenario.nodes()))
    mixed_pair = _mixed_qubit_pair()
    settings = []
    for alpha, beta, plane in settings_cycle:
        plane_enum = MeasurementPlane.EQUATOR if plane == "equator" else MeasurementPlane.Z
        settings.append((alpha, beta, plane,
                         AtomBasisSetting(alpha, plane_enum), AtomBasisSetting(beta, plane_enum)))
    lo = scenario.acceptance_offset
    hi = lo + scenario.acceptance_window

    # click times relative to each photon's nominal arrival
    def signal_offset(node):
        return (node.wavepacket.sample_emission_times(1, rng)[0]
                + rng.normal(0.0, node.sync_jitter_sigma))

    events = []
    clicks = []
    n_dnull = 0
    n_dnull_accepted = 0
    n_heralds_by_class = {"DPlus": 0, "DMinus": 0}
    try_index = 0
    herald_count = 0
    wall_time = 0.0
    setting_idx = 0

    while herald_count < target_events:
        gap = int(rng.geometric(p_event))
        try_index += gap
        wall_time = clock.advance(gap)
        branch = branch_names[rng.choice(len(branch_names), p=branch_weights)]

        if branch == "dnull":
            pair = sample_pair(CoincidenceClass.D_NULL, rng)
            offs = (signal_offset(scenario.node1), signal_offset(scenario.node2))
            accepted = all(lo <= t <= hi for t in offs)
            n_dnull += 1
            n_dnull_accepted += int(accepted)
            if collect_clicks:
                clicks.append(("node1", pair[0], offs[0], "signal"))
                clicks.append(("node2", pair[1], offs[1], "signal"))
            continue

        if branch == "background":
            cls = CoincidenceClass.D_PLUS if rng.random() < 0.5 else CoincidenceClass.D_MINUS
            pair = sample_pair(cls, rng)
            # one signal photon plus one background click (dominant term)
            sig_node = 0 if rng.random() < eta[0] / (eta[0] + eta[1]) else 1
            offs = [0.0, 0.0]
            offs[sig_node] = signal_offset(scenario.nodes()[sig_node])
            offs[1 - sig_node] = rng.uniform(hw0, hw1)
            origin = "background"
            rho = mixed_pair
            outcome = _CLASS_TO_OUTCOME[cls]
        else:
            cls = CoincidenceClass.D_PLUS if branch == "dplus" else CoincidenceClass.D_MINUS
            outcome = _CLASS_TO_OUTCOME[cls]
            pair = sample_pair(cls, rng)
            offs = [signal_offset(scenario.node1), signal_offset(scenario.node2)]
            origin = "signal"
            u1 = _random_small_rotation(rng, scenario.polarization_error_mean)
            u2 = _random_small_rotation(rng, scenario.polarization_error_mean)
            _, rho = quantum.swap_with_interference(signal_in, outcome, xi, (u1, u2))
            rho = channels[0].apply_to_subsystem(rho, 0)
            rho = channels[1].apply_to_subsystem(rho, 1)

        accepted = all(lo <= t <= hi for t in offs)
        alpha, beta, plane, s1, s2 = settings[setting_idx % len(settings)]
        setting_idx += 1
        probs = joint_outcome_probabilities(rho, s1, s2)
        state_fid = fidelity(rho, bell_targets[outcome])

        outcome1 = outcome2 = None
        if mode == "sampled-clicks":
            r = rng.random()
            if r < probs["uu"]:
                outcome1, outcome2 = "up", "up"
            elif r < probs["uu"] + probs["ud"]:
                outcome1, outcome2 = "up", "down"
            elif r < probs["uu"] + probs["ud"] + probs["du"]:
                outcome1, outcome2 = "down", "up"
            else:
                outcome1, outcome2 = "down", "down"

        events.append(HeraldedEvent(
            index=herald_count, try_index=try_index, wall_time=wall_time,
            bell_outcome=outcome.value, detectors=tuple(pair),
            click_offsets=(offs[0], offs[1]), accepted=accepted, origin=origin,
            alpha=alpha, beta=beta, plane=plane,
            state=rho if mode == "density-matrix" else None,
            probabilities=probs, state_fidelity=state_fid,
            outcome1=outcome1, outcome2=outcome2,
        ))
        n_heralds_by_class[cls.value] += 1
        if collect_clicks:
            clicks.append(("node1", pair[0], offs[0],
                           "signal" if origin == "signal" else "mixed"))
            clicks.append(("node2", pair[1], offs[1],
                           "signal" if origin == "signal" else "mixed"))
        herald_count += 1

    # subsampled singles stream for detection-time histograms; the flat
    # background is continuous, so it is recorded over a wide span around
    # the arrival window to give the estimator clean side bands
    singles = {}
    hist_lo, hist_hi = HISTOGRAM_SPAN
    if collect_clicks and try_index > 0:
        for i, label in enumerate(("node1", "node2")):
            node = scenario.nodes()[i]
            n_signal = int(rng.binomial(try_index, eta[i]))
            n_bg = int(rng.poisson(try_index * background_rate_at_station(scenario)["total"]
                                   * (hist_hi - hist_lo)))
            factor = min(1.0, max_singles / max(n_signal + n_bg, 1))
            k_sig = int(round(n_signal * factor))
            k_bg = int(round(n_bg * factor))
            t_sig = node.wavepacket.sample_emission_times(k_sig, rng)
            t_bg = rng.uniform(hist_lo, hist_hi, size=k_bg)
            singles[label] = {
                "subsample_factor": factor,
                "signal_times": t_sig,
                "background_times": t_bg,
            }
            for t in t_sig:
                clicks.append((label, "single", float(t), "signal"))
            for t in t_bg:
                clicks.append((label, "single", float(t), "background"))

    n_accepted = sum(1 for e in events if e.accepted)
    sbr = sbr_model(scenario)
    summary = {
        "scenario": scenario.name,
        "config_hash": config_hash(scenario),
        "mode": mode,
        "schedule": schedule_name,
        "seed": seed,
        "n_events": herald_count,
        "n_tries": try_index,
        "wall_time_s": wall_time,
        "measured_event_rate_hz": herald_count / wall_time if wall_time > 0 else 0.0,
        "measured_success_probability": herald_count / try_index if try_index else 0.0,
        "accepted_fraction": n_accepted / herald_count if herald_count else 0.0,
        "n_dnull": n_dnull,
        "n_dnull_accepted": n_dnull_accepted,
        "herald_counts": n_heralds_by_class,
        "xi": xi,
        "sbr_model": sbr,
        "model": {
            "success_probability": success_probability(scenario),
            "repetition_rate_hz": repetition_rate(scenario),
            "duty_cycle_nominal": scenario.duty_cycle_nominal,
            "event_rate_hz": event_rate(scenario),
        },
        "mean_state_fidelity": float(np.mean([e.state_fidelity for e in events]))
        if events else None,
        "dead_time_s": clock.dead_time,
    }
    dataset = dataset_from_records([e.readout_record() for e in events], mode)
    return RunResult(scenario.name, config_hash(scenario), mode, seed, events,
                     dataset, summary, clicks)
