"""Rate and probability budget of the entanglement-generation protocol."""

import numpy as np

from ..photonics import link_transmission, window_capture_probability
from ..photonics.fibre import propagation_delay
from .scenario import LinkScenario, SequenceConfig


def node_detection_efficiency(scenario: LinkScenario, node_index: int) -> float:
    """Probability per try that this node's photon clicks at the middle station."""
    node = scenario.nodes()[node_index]
    link = scenario.links()[node_index]
    return (
        node.collection_efficiency
        * node.qfc.external_efficiency
        * link_transmission(link)
        * scenario.detectors.efficiency
    )


def success_probability(scenario: LinkScenario) -> float:
    """Herald probability per synchronized try.

    Both photons must click and the coincidence must land in the heralding
    detector groups, which accept half of the detected pairs.
    """
    return 0.5 * node_detection_efficiency(scenario, 0) * node_detection_efficiency(scenario, 1)


def success_probability_report(scenario: LinkScenario) -> dict:
    """Model value next to the published one (where available)."""
    model = success_probability(scenario)
    quoted = scenario.published_values.get("success_probability")
    out = {"model": model, "quoted": quoted}
    if quoted:
        out["model_over_quoted"] = model / quoted
    return out


def repetition_rate(scenario: LinkScenario) -> float:
    """Try rate during bursts: overhead plus the longer one-way photon flight."""
    flight = max(propagation_delay(scenario.link1), propagation_delay(scenario.link2))
    return 1.0 / (scenario.t_overhead + flight)


def heralding_delay(scenario: LinkScenario, node_index: int) -> float:
    """Signalling time of the herald back to one node, L_i / (2c/3)."""
    return propagation_delay(scenario.links()[node_index])


def simulate_occupancy(sequence: SequenceConfig, duration: float = 3600.0,
                       seed: int = 0, n_traps: int = 2) -> float:
    """Fraction of wall time with an atom in every trap.

    Each trap alternates exponential holding periods with reload dead times
    (uniform between 0.4 and 1.6 times the mean loading time); the dead
    intervals are merged exactly, with no time binning.
    """
    rng = np.random.default_rng(seed)
    dead = []
    for _ in range(n_traps):
        t = 0.0
        while t < duration:
            t_lost = t + rng.exponential(sequence.trap_lifetime)
            reload = sequence.loading_time * rng.uniform(0.4, 1.6)
            if t_lost < duration:
                dead.append((t_lost, min(t_lost + reload, duration)))
            t = t_lost + reload
    if not dead:
        return 1.0
    dead.sort()
    total = 0.0
    cur_lo, cur_hi = dead[0]
    for lo, hi in dead[1:]:
        if lo <= cur_hi:
            cur_hi = max(cur_hi, hi)
        else:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
    total += cur_hi - cur_lo
    return 1.0 - total / duration


def duty_cycle(sequence: SequenceConfig, try_period: float,
               occupancy: float | None = None, seed: int = 0) -> float:
    """Fraction of wall time spent making synchronized tries.

    Combines the burst structure (cooling every N tries), the periodic
    presence checks, and the two-trap occupancy.
    """
    if try_period <= 0:
        raise ValueError("try period must be positive")
    burst = sequence.tries_per_cooling_block * try_period
    burst_fraction = burst / (burst + sequence.cooling_duration)
    block_fraction = sequence.block_period / (
        sequence.block_period + sequence.presence_check_duration
    )
    if occupancy is None:
        occupancy = simulate_occupancy(sequence, seed=seed)
    return burst_fraction * block_fraction * occupancy


def event_rate(scenario: LinkScenario, success_prob: float | None = None,
               repetition_hz: float | None = None,
               duty: float | None = None) -> float:
    """Heralded events per second of wall time."""
    p = success_probability(scenario) if success_prob is None else success_prob
    rep = repetition_rate(scenario) if repetition_hz is None else repetition_hz
    d = scenario.duty_cycle_nominal if duty is None else duty
    if p == 0.0:
        return 0.0
    return p * rep * d


def background_rate_at_station(scenario: LinkScenario) -> dict:
    """Flat click rates at the middle station: per-node Raman plus darks."""
    raman1 = scenario.node1.qfc.background_rate * link_transmission(scenario.link1)
    raman2 = scenario.node2.qfc.background_rate * link_transmission(scenario.link2)
    darks = 4.0 * scenario.detectors.dark_rate
    return {"raman1": raman1, "raman2": raman2, "darks": darks,
            "total": raman1 + raman2 + darks}


def window_capture(scenario: LinkScenario, node_index: int,
                   window: float | None = None, offset: float | None = None) -> float:
    """Probability that a detected photon falls inside the analysis window."""
    node = scenario.nodes()[node_index]
    w = scenario.acceptance_window if window is None else window
    off = scenario.acceptance_offset if offset is None else offset
    return window_capture_probability(node.wavepacket, off, off + w)


def sbr_model(scenario: LinkScenario, window: float | None = None,
              offset: float | None = None) -> dict:
    """Modelled signal-to-background ratios in a given analysis window.

    A heralding coincidence is spoiled when a background click replaces
    either photon; a background click pairs with a signal click into a
    heralding group half of the time (distinguishable-photon statistics).
    """
    w = scenario.acceptance_window if window is None else window
    rates = background_rate_at_station(scenario)
    bg_mean = rates["total"] * w
    out = {}
    etas = []
    for i in (0, 1):
        eta_w = node_detection_efficiency(scenario, i) * window_capture(scenario, i, w, offset)
        etas.append(eta_w)
        out[f"node{i + 1}"] = eta_w / bg_mean if bg_mean > 0 else np.inf
    p_sig = 0.5 * etas[0] * etas[1]
    p_bg = 0.5 * (etas[0] * (1 - etas[1]) + etas[1] * (1 - etas[0])) * bg_mean \
        + 0.25 * bg_mean**2
    out["coincidence"] = p_sig / p_bg if p_bg > 0 else np.inf
    out["background_weight"] = p_bg / (p_sig + p_bg) if p_sig + p_bg > 0 else 0.0
    return out
